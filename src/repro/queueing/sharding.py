"""Deterministic time-slice sharding of long cluster runs.

A *shard* is one segment of a single simulated timeline: the run
pauses between events at each boundary, detaches its per-shard metrics
window, optionally checkpoints, and warm-hands its in-flight state
(queues, running sets, lazy-sync points, stream position) to the next
segment.  Because pauses land between events and the streaming metrics
merge exactly (:meth:`repro.queueing.system.SystemMetrics.merge`), a
sharded run performs the **identical** event/arrival/pick sequence as
the unsharded one and its reduced metrics are bit-identical — shard
boundaries only choose where checkpoints can happen, never what is
computed.

The determinism contract:

* Boundaries are pure data (:func:`plan_boundaries` is a pure
  function), so every replay shards at the same instants.
* Arrival streams must be rebuilt deterministically from their seed —
  the scenario layer derives per-purpose RNG streams via
  :func:`repro.util.rng.derive_rng`, which is stable across processes
  and Python versions — so a resumed process fast-forwards to the
  exact in-flight job sequence.
* Checkpoints are written with the fsync-hardened atomic dump; a
  killed run (power loss included) resumes from the last completed
  shard bit-identically (:mod:`repro.queueing.checkpoint`).

Cross-*cell* parallelism is the orthogonal axis: independent
(scenario, dispatcher, seed) cells of a sweep share nothing, so
:func:`parallel_map` fans them out over worker processes (the
experiments CLI exposes this via ``--jobs``).

Set ``REPRO_SHARD_DIE_AFTER=<k>`` to hard-kill the process right after
shard *k*'s checkpoint is written — the hook the kill+resume CI test
uses to prove crash recovery is exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import SimulationError
from repro.queueing.checkpoint import (
    capture,
    check_checkpointable,
    load,
    restore,
    save,
)
from repro.queueing.cluster import (
    Cluster,
    ClusterMetrics,
    ClusterRunHandle,
    RunConfig,
)
from repro.queueing.job import Job

__all__ = [
    "CHECKPOINT_NAME",
    "ShardedRun",
    "plan_boundaries",
    "run_sharded",
    "parallel_map",
]

#: File name of the (single, atomically replaced) checkpoint inside a
#: ``--checkpoint-dir``.
CHECKPOINT_NAME = "checkpoint.json"

#: Environment kill switch: exit code used right after the matching
#: shard's checkpoint is written.
_DIE_ENV = "REPRO_SHARD_DIE_AFTER"
_DIE_EXIT_CODE = 42

_T = TypeVar("_T")
_R = TypeVar("_R")


def plan_boundaries(n_shards: int, duration: float) -> list[float]:
    """Evenly spaced shard boundaries over an estimated duration.

    Returns ``n_shards - 1`` pause times (the final shard runs to
    completion).  The estimate only controls checkpoint spacing — a
    run that outlives it simply makes its last shard longer, with no
    effect on any result.
    """
    if n_shards < 1:
        raise SimulationError(f"need at least one shard, got {n_shards}")
    if duration <= 0.0:
        raise SimulationError(
            f"duration estimate must be positive, got {duration}"
        )
    return [duration * i / n_shards for i in range(1, n_shards)]


@dataclass(frozen=True)
class ShardedRun:
    """Outcome of :func:`run_sharded`.

    Attributes:
        metrics: the exact reduction of every shard window —
            bit-identical to the unsharded run's metrics.
        shards_run: segments executed *in this process* (a resumed run
            re-executes none of the shards it recovered).
        resumed_from_shard: index of the checkpointed shard this
            process resumed after, or ``None`` for a fresh run.
    """

    metrics: ClusterMetrics
    shards_run: int
    resumed_from_shard: int | None


def run_sharded(
    cluster: Cluster,
    stream_factory: Callable[[], Iterable[Job]],
    *,
    boundaries: Sequence[float],
    checkpoint_dir: Path | str | None = None,
    pick_log: list | None = None,
    **config: Any,
) -> ShardedRun:
    """Run a cluster scenario as consecutive time-slice shards.

    ``stream_factory`` must build the *same deterministic arrival
    stream* on every call (it is re-invoked on checkpoint resume);
    ``boundaries`` are the pause times (see :func:`plan_boundaries`).
    With ``checkpoint_dir`` set, a checkpoint is written after every
    shard and a pre-existing checkpoint in that directory is resumed
    from; the file is removed once the run completes, so a finished
    directory never hijacks a later run.  A checkpoint resumes only
    under the run config it was taken with; estimated-rate runs cannot
    be checkpointed.  The remaining keyword arguments are the fields of
    :class:`~repro.queueing.cluster.RunConfig`; ``max_events`` bounds
    each segment (not the whole run).
    """
    run_config = RunConfig(**config)
    boundaries = [float(b) for b in boundaries]
    if sorted(boundaries) != boundaries:
        raise SimulationError("shard boundaries must be non-decreasing")
    checkpoint_path: Path | None = None
    if checkpoint_dir is not None:
        check_checkpointable(run_config)
        checkpoint_path = Path(checkpoint_dir) / CHECKPOINT_NAME

    accumulated: ClusterMetrics | None = None
    resumed_from: int | None = None
    next_shard = 0
    if checkpoint_path is not None and checkpoint_path.exists():
        payload = load(checkpoint_path)
        extra = payload["extra"]
        if extra.get("boundaries") != boundaries:
            raise SimulationError(
                "checkpoint was taken under different shard boundaries "
                "— refusing to resume a different plan"
            )
        differing = RunConfig.from_jsonable(
            payload["run"]
        ).differing_fields(run_config)
        if differing:
            raise SimulationError(
                "checkpoint was taken under a different run config "
                f"(differing fields: {', '.join(differing)}) — refusing "
                "to resume a different run"
            )
        handle = restore(
            cluster, stream_factory(), payload, pick_log=pick_log
        )
        accumulated = ClusterMetrics.from_state(extra["accumulated"])
        resumed_from = int(extra["shard"])
        next_shard = resumed_from + 1
    else:
        handle = ClusterRunHandle(
            cluster, stream_factory(), run_config, pick_log=pick_log
        )

    die_after = os.environ.get(_DIE_ENV)
    shards_run = 0
    finished = False
    for index in range(next_shard, len(boundaries)):
        finished = handle.advance(pause_at=boundaries[index])
        window = handle.take_window()
        accumulated = (
            window if accumulated is None else accumulated.merge(window)
        )
        shards_run += 1
        if finished:
            break
        if checkpoint_path is not None:
            save(
                checkpoint_path,
                capture(
                    handle,
                    extra={
                        "shard": index,
                        "boundaries": boundaries,
                        "accumulated": accumulated.to_state(),
                    },
                ),
            )
            if die_after is not None and index >= int(die_after):
                # Hard kill (no cleanup, no atexit): the closest a test
                # can get to pulling the plug mid-run.
                os._exit(_DIE_EXIT_CODE)
    if not finished:
        handle.advance()
        window = handle.take_window()
        accumulated = (
            window if accumulated is None else accumulated.merge(window)
        )
        shards_run += 1
    if checkpoint_path is not None and checkpoint_path.exists():
        checkpoint_path.unlink()
    assert accumulated is not None
    return ShardedRun(
        metrics=accumulated,
        shards_run=shards_run,
        resumed_from_shard=resumed_from,
    )


def parallel_map(
    fn: Callable[[_T], _R], payloads: Sequence[_T], jobs: int
) -> list[_R]:
    """Map ``fn`` over independent cells, optionally across processes.

    Uses the spawn start method (clean interpreter state per worker,
    matching the experiments CLI); falls back to a plain loop when
    ``jobs <= 1`` or there is only one cell.  ``fn`` and every payload
    must be picklable.  Results keep payload order, so fan-out never
    changes the assembled output.
    """
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    context = get_context("spawn")
    with context.Pool(processes=min(jobs, len(payloads))) as pool:
        return pool.map(fn, list(payloads))
