"""Crash-safe checkpoint/restore of a paused cluster run.

A :class:`~repro.queueing.cluster.ClusterRunHandle` paused between
events is a complete description of the simulation's future: the
clock, every machine's queue/running set/rates/lazy-sync point, the
scheduler and dispatcher run state, the arrival stream position, and
the loop's in-flight bookkeeping.  :func:`capture` serializes all of
it to a JSON payload; :func:`restore` rebuilds a handle in a *fresh
process* that continues the run through the exact operation sequence
of the uninterrupted one — a killed multi-million-job run resumes
bit-identically.

Why this is exact, not approximate:

* Floats round-trip JSON losslessly (``repr`` ↔ ``float``), and the
  streaming metrics accumulators serialize as arbitrary-precision
  integers, which JSON also round-trips exactly.
* Per-coschedule rates are *recomputed* on restore through the run
  memo (a pure function of the rate table), reproducing the exact
  floats the paused run held; the type codec's id assignment is
  replayed from the serialized encounter-order name list.
* The arrival stream is rebuilt by the caller from its deterministic
  seed (see :func:`repro.util.rng.derive_rng`) and fast-forwarded by
  the serialized pull count; the in-flight pending job is re-pulled
  from the rebuilt stream and integrity-checked against the payload.

Files are written with the fsync-hardened
:func:`repro.microarch.rate_cache._atomic_dump`, so the file a restore
finds is always a complete checkpoint — power loss mid-write leaves
the previous one in place.

Format: ``repro-checkpoint-v2``.  The version is checked on load;
future format changes must bump it (a restore never guesses).  A
truncated, non-JSON, or version-mismatched file raises
:class:`~repro.errors.CheckpointError` naming the file and the
expected format — never a raw ``json``/``KeyError``.

The ``run`` section is the run's
:meth:`~repro.queueing.cluster.RunConfig.to_jsonable`, and restore
reads it back with :meth:`~repro.queueing.cluster.RunConfig.from_jsonable`.
Payloads written before :class:`~repro.queueing.cluster.RunConfig`
existed lack some of its keys; those take their defaults.  v2 adds the
fault layer: the run's :class:`~repro.queueing.faults.FaultConfig`,
each machine's effective speed (DEGRADED episodes), and the full
:class:`~repro.queueing.faults.FaultRuntime` state (lifecycle, event
heap, retry heap, attempt counts, RNG position) — a killed run resumes
bit-identically *through* a failure event.

Estimated-rate runs (``rate_source="estimated"``) are refused with a
:class:`~repro.errors.CheckpointError`: the estimator's state is not
serialized, so a restored run could only continue on oracle rates.

``run.engine`` must name one of :data:`~repro.queueing.cluster.ENGINES`.
Payloads written before the interned "fast" loop was removed may say
``"fast"``; those raise :class:`~repro.errors.CheckpointError` instead
of being remapped, because a fast-loop checkpoint carries none of the
compiled engine's queue-order flags.  The ``run.backend`` field older
payloads carry (the retired SRPT scoring backend) is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.errors import CheckpointError, SimulationError
from repro.microarch.rate_cache import _atomic_dump
from repro.queueing.cluster import (
    ENGINES,
    Cluster,
    ClusterRunHandle,
    JobQueue,
    LoopState,
    RunConfig,
)
from repro.queueing.job import Job

__all__ = [
    "CHECKPOINT_FORMAT",
    "check_checkpointable",
    "capture",
    "save",
    "load",
    "restore",
]

#: Format tag embedded in (and required of) every checkpoint file.
CHECKPOINT_FORMAT = "repro-checkpoint-v2"

#: Top-level sections every well-formed checkpoint carries; validated
#: on load so a corrupt file fails with a named diagnosis, not a
#: ``KeyError`` deep inside restore().
_REQUIRED_SECTIONS = (
    "run",
    "loop",
    "stream",
    "machines",
    "schedulers",
    "dispatcher",
)

_INF = float("inf")


def _job_payload(job: Job) -> list:
    return [
        job.job_id,
        job.job_type,
        job.size,
        job.arrival_time,
        job.remaining,
    ]


def _job_matches(job: Job, payload: list) -> bool:
    return (
        job.job_id == payload[0]
        and job.job_type == payload[1]
        and job.size == payload[2]
        and job.arrival_time == payload[3]
    )


def check_checkpointable(config: RunConfig) -> None:
    """Raise :class:`~repro.errors.CheckpointError` for a run a
    checkpoint cannot reproduce: an estimated-rate run, whose
    estimator state is not serialized."""
    if config.rate_source == "estimated":
        raise CheckpointError(
            "cannot checkpoint a rate_source='estimated' run: the "
            "estimator state is not serialized, so a restored run "
            "would continue on oracle rates"
        )


def capture(
    handle: ClusterRunHandle, *, extra: dict | None = None
) -> dict:
    """Serialize a paused run handle to a JSON-safe payload.

    The handle must be paused between events (``advance(pause_at=...)``
    returned ``False``); a finished or never-advanced run has nothing
    meaningful to checkpoint.  ``extra`` rides along under ``"extra"``
    — the sharding driver stores its shard index and the exact
    accumulated window metrics there.  Estimated-rate runs are refused
    (:func:`check_checkpointable`).
    """
    check_checkpointable(handle.config)
    state = handle.state
    if state is None:
        raise SimulationError(
            "capture() needs a paused run (advance(pause_at=...) that "
            "returned False)"
        )
    machines = []
    for machine in handle.machines:
        machines.append({
            "jobs": [_job_payload(job) for job in machine.jobs],
            # Selection order, not just membership: sync() progresses
            # running jobs in this order and float accumulation of the
            # interval's work is order-sensitive.
            "running_ids": [job.job_id for job in machine.running],
            "coschedule": list(machine.coschedule),
            "next_completion": machine.next_completion,
            "last_sync": machine.last_sync,
            "dirty": machine.dirty,
            "speed": machine.speed,
            "metrics": machine.metrics.to_state(),
        })
    return {
        "format": CHECKPOINT_FORMAT,
        "run": handle.config.to_jsonable(),
        "loop": {
            "clock": state.clock,
            "last_arrival": state.last_arrival,
            "in_system": state.in_system,
            "full_machines": state.full_machines,
            "routed": state.routed,
            "pending": (
                _job_payload(state.pending)
                if state.pending is not None
                else None
            ),
            "age_ok": (
                list(state.age_ok) if state.age_ok is not None else None
            ),
        },
        "stream": {"jobs_pulled": handle.jobs_pulled},
        # Encounter-order type vocabulary: replaying it on restore
        # reproduces every interned id of the original run.
        "codec": (
            list(handle.memo.codec.names())
            if handle.config.engine == "compiled"
            else None
        ),
        "machines": machines,
        "schedulers": [
            m.scheduler.state_dict() for m in handle.machines
        ],
        "dispatcher": handle.cluster.dispatcher.state_dict(),
        "faults_state": (
            handle.fault_rt.state_dict()
            if handle.fault_rt is not None
            else None
        ),
        "extra": extra or {},
    }


def save(path: Path | str, payload: dict) -> None:
    """Write a checkpoint payload crash-safely (fsync + atomic rename)."""
    _atomic_dump(
        Path(path), lambda fp: json.dump(payload, fp, separators=(",", ":"))
    )


def load(path: Path | str) -> dict:
    """Read and validate a checkpoint payload.

    Raises :class:`~repro.errors.CheckpointError` — naming the file
    and the expected format — for anything short of a well-formed
    checkpoint: an unreadable file, truncated or non-JSON content, a
    format-version mismatch, or missing required sections.
    """
    try:
        with open(path, encoding="utf-8") as fp:
            payload = json.load(fp)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated or "
            f"corrupt write?): {exc} — expected a complete "
            f"{CHECKPOINT_FORMAT!r} payload"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path} does not contain a JSON object "
            f"(expected a {CHECKPOINT_FORMAT!r} payload)"
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r} "
            f"in {path} (expected {CHECKPOINT_FORMAT!r})"
        )
    missing = [
        section
        for section in _REQUIRED_SECTIONS
        if section not in payload
    ]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing required section(s) "
            f"{', '.join(missing)} — truncated or not a "
            f"{CHECKPOINT_FORMAT!r} payload"
        )
    return payload


def restore(
    cluster: Cluster,
    arrivals: Iterable[Job],
    payload: dict,
    *,
    pick_log: list | None = None,
) -> ClusterRunHandle:
    """Rebuild a paused run handle from a checkpoint payload.

    ``arrivals`` must be the *same deterministic stream* the original
    run was started with (rebuilt from its seed); it is fast-forwarded
    past every job the checkpointed run had already pulled.  The
    returned handle continues with ``advance()`` exactly as the
    original would have.

    Scheduler and dispatcher run state is restored onto the cluster's
    live objects; the running sets are reconstructed from serialized
    ids — selection is **never** re-invoked on restore (it would
    duplicate pick-log entries, and remaining-time policies could pick
    differently mid-interval).
    """
    engine = payload["run"]["engine"]
    if engine not in ENGINES:
        raise CheckpointError(
            f"checkpoint names engine {engine!r}; valid engines are "
            f"{', '.join(ENGINES)}.  A checkpoint from a removed engine "
            "cannot be remapped — re-run from the start"
        )
    handle = ClusterRunHandle(
        cluster,
        arrivals,
        RunConfig.from_jsonable(payload["run"]),
        pick_log=pick_log,
    )
    if len(handle.machines) != len(payload["machines"]):
        raise SimulationError(
            "checkpoint machine count does not match this cluster: "
            f"{len(payload['machines'])} vs {len(handle.machines)}"
        )
    compiled = engine == "compiled"
    memo = handle.memo
    if compiled:
        for name in payload["codec"]:
            memo.codec.encode(name)

    # Fast-forward the rebuilt stream to the checkpointed position.
    loop = payload["loop"]
    pending_payload = loop["pending"]
    pulled = payload["stream"]["jobs_pulled"]
    skip = pulled - (1 if pending_payload is not None else 0)
    for _ in range(skip):
        if next(handle.stream, None) is None:
            raise SimulationError(
                "arrival stream ended before the checkpointed position "
                "— it is not the stream this checkpoint was taken from"
            )
    pending: Job | None = None
    if pending_payload is not None:
        pending = next(handle.stream, None)
        if pending is None or not _job_matches(pending, pending_payload):
            raise SimulationError(
                "arrival stream does not reproduce the checkpointed "
                "pending job — wrong stream or seed"
            )

    from repro.queueing.system import SystemMetrics

    for machine, mstate in zip(handle.machines, payload["machines"]):
        queue = JobQueue()
        by_id: dict[int, Job] = {}
        for job_id, job_type, size, arrival_time, remaining in mstate[
            "jobs"
        ]:
            job = Job(
                job_id=job_id,
                job_type=job_type,
                size=size,
                arrival_time=arrival_time,
                remaining=remaining,
            )
            job.type_code = memo.codec.encode(job_type) if compiled else None
            queue.append(job)
            by_id[job.job_id] = job
        if compiled:
            queue.enable_index()
        machine.jobs = queue
        running = [by_id[i] for i in mstate["running_ids"]]
        machine.running = running
        # A machine checkpointed mid-DEGRADED-episode steps at a scaled
        # rate; rebuilding the scaling from the memo's nominal entry
        # reproduces the paused run's exact floats (same multiply on
        # the same operands — see Machine.reschedule).
        speed = mstate.get("speed", 1.0)
        machine.speed = speed
        if compiled:
            codes = tuple(sorted(job.type_code for job in running))
            entry = memo.compiled_entry(codes)
            machine.coschedule = entry.names
            if speed == 1.0:
                machine.job_rates = entry.per_job
                machine.rates_by_code = entry.rates_by_code
            else:
                machine.job_rates = {
                    k: v * speed for k, v in entry.per_job.items()
                }
                machine.rates_by_code = [
                    r * speed for r in entry.rates_by_code
                ]
        else:
            machine.coschedule = tuple(mstate["coschedule"])
            job_rates = memo.per_job_rates(machine.coschedule)
            if speed != 1.0:
                job_rates = {k: v * speed for k, v in job_rates.items()}
            machine.job_rates = job_rates
        if list(machine.coschedule) != mstate["coschedule"]:
            raise SimulationError(
                "restored coschedule does not match the checkpoint — "
                "the rate table or codec differs from the original run"
            )
        machine.next_completion = mstate["next_completion"]
        machine.last_sync = mstate["last_sync"]
        machine.dirty = mstate["dirty"]
        machine.metrics = SystemMetrics.from_state(mstate["metrics"])

    for machine, sched_state in zip(
        handle.machines, payload["schedulers"]
    ):
        machine.scheduler.load_state(sched_state)
    cluster.dispatcher.load_state(payload["dispatcher"])

    faults_state = payload.get("faults_state")
    if handle.fault_rt is not None:
        if faults_state is None:
            raise CheckpointError(
                "checkpoint declares a fault config but carries no "
                "faults_state section — truncated or hand-edited file"
            )
        handle.fault_rt.load_state(
            faults_state,
            encode=memo.codec.encode if compiled else None,
        )

    handle.state = LoopState(
        clock=loop["clock"],
        last_arrival=loop["last_arrival"],
        in_system=loop["in_system"],
        full_machines=loop["full_machines"],
        routed=loop["routed"],
        pending=pending,
        age_ok=(
            tuple(loop["age_ok"]) if loop["age_ok"] is not None else None
        ),
    )
    return handle
