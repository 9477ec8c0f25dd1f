"""Cluster-level dispatch policies: which machine gets the next job.

The multi-machine simulator is two-level, mirroring the structure of
cluster schedulers that compose placement with per-machine packing: a
*dispatcher* routes each arriving job to one machine, and the machine's
own :class:`~repro.queueing.schedulers.Scheduler` packs coschedules
from whatever the dispatcher sent it.  The paper's Section III-D claim
— multi-machine symbiotic scheduling reduces to the single-machine
problem — predicts that a type-blind balanced dispatcher (round-robin)
composed with a good per-machine scheduler already achieves the joint
optimum; the policies here let experiments test that dynamically.

* :class:`RoundRobinDispatcher` — cycle through the machines; with no
  admission caps, job *i* of the stream lands on machine ``i mod M``,
  which makes an M-machine cluster decompose into M independent
  single-machine systems (the reduction's premise).
* :class:`JoinShortestQueueDispatcher` — classic JSQ: route to the
  machine currently holding the fewest jobs.
* :class:`SymbiosisAffinityDispatcher` — route *by type* using the
  Section-IV LP fractions: the offline LP solution induces, for every
  pair of types, the expected number of co-runners of one type a job of
  the other type sees under the optimal schedule; jobs are steered
  toward (near-shortest) queues whose current mix they are most
  symbiotic with.

Dispatchers are deliberately stateful-but-deterministic objects (the
round-robin cursor, the affinity table); build a fresh one per run when
reproducibility across runs matters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from repro.core.workload import Workload
from repro.errors import WorkloadError
from repro.microarch.codec import TypeCodec
from repro.microarch.rates import RateSource
from repro.queueing.job import Job
from repro.queueing.ratememo import optimal_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.queueing.cluster import Machine

__all__ = [
    "Dispatcher",
    "RoundRobinDispatcher",
    "JoinShortestQueueDispatcher",
    "SymbiosisAffinityDispatcher",
    "make_dispatcher",
]


class Dispatcher(ABC):
    """Base class: picks the target machine for each admitted job."""

    name: str = "base"
    #: True for policies whose routing consumes symbiosis rates (via an
    #: offline solve or live probing).  Estimated-rate runs require such
    #: a dispatcher to also implement ``rebuild(rates)`` so its tables
    #: refresh at every re-optimization round — a rate-consuming
    #: dispatcher without the hook is rejected up front rather than
    #: silently routing on stale oracle state.
    uses_rates: bool = False

    @abstractmethod
    def route(
        self,
        job: Job,
        machines: Sequence["Machine"],
        eligible: Sequence[int],
        clock: float,
    ) -> int:
        """Choose the machine index for ``job``.

        Args:
            job: the job about to enter the cluster.
            machines: every machine (inspect ``machine.jobs`` freely —
                queue contents are current at every dispatch decision).
            eligible: indices of machines with admission room, never
                empty.  The returned index must come from this list.
            clock: current simulation time.
        """

    def bind_codec(self, codec: TypeCodec | None) -> None:
        """Hook: the cluster hands the run's type codec to dispatchers
        with per-type state (and ``None`` when the run ends, or when
        it takes the legacy path).  Stateless policies ignore it."""

    def state_dict(self) -> dict[str, object]:
        """JSON-safe mutable run state (checkpointing).

        Online-stateless policies (JSQ, affinity — their per-run
        matrices are rebuilt by ``bind_codec``) return ``{}``; the
        round-robin cursor overrides both hooks.
        """
        return {}

    def load_state(self, state: dict[str, object]) -> None:
        """Restore mutable state captured by :meth:`state_dict`."""


class RoundRobinDispatcher(Dispatcher):
    """Cycle through machines; skip to the next one with room.

    Without per-machine admission caps the cursor advances exactly once
    per job, so job *i* lands on machine ``(start + i) mod M`` — the
    deterministic split that reduces the cluster to M independent
    single-machine systems.
    """

    name = "round_robin"

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise WorkloadError(f"start must be non-negative, got {start}")
        self._cursor = start

    def route(
        self,
        job: Job,
        machines: Sequence["Machine"],
        eligible: Sequence[int],
        clock: float,
    ) -> int:
        room = set(eligible)
        n = len(machines)
        for offset in range(n):
            index = (self._cursor + offset) % n
            if index in room:
                self._cursor = (index + 1) % n
                return index
        raise WorkloadError("route() called with no eligible machine")

    def state_dict(self) -> dict[str, object]:
        return {"cursor": self._cursor}

    def load_state(self, state: dict[str, object]) -> None:
        self._cursor = int(state["cursor"])


class JoinShortestQueueDispatcher(Dispatcher):
    """Route to the eligible machine with the fewest jobs in system.

    Ties break toward the lowest machine index, keeping runs
    deterministic.
    """

    name = "jsq"

    def route(
        self,
        job: Job,
        machines: Sequence["Machine"],
        eligible: Sequence[int],
        clock: float,
    ) -> int:
        if not eligible:
            raise WorkloadError("route() called with no eligible machine")
        return min(eligible, key=lambda i: (len(machines[i].jobs), i))


class SymbiosisAffinityDispatcher(Dispatcher):
    """Route by job type using the Section-IV LP fractions.

    Offline phase: solve the single-machine LP for the workload.  Its
    optimal coschedule time fractions induce a pairwise affinity

    ``w(a, b) = sum_s x_s * n_a(s) * (n_b(s) - [a = b])``

    — the expected number of type-``b`` co-runners a type-``a`` job has
    under the optimal schedule (so types the LP likes to co-run score
    high together, and types it keeps apart score zero).

    Online phase: among eligible machines whose queue length is within
    ``slack`` of the shortest (load still rules first-order), send the
    job to the queue whose current mix it has the highest mean affinity
    with; ties fall back to shorter-queue-then-lowest-index.  On
    identical machines with a balanced flow this behaves like
    round-robin until type imbalances appear, then consolidates
    symbiotic types.
    """

    name = "affinity"
    uses_rates = True

    def __init__(
        self,
        rates: RateSource,
        workload: Workload,
        *,
        contexts: int | None = None,
        slack: int = 1,
    ) -> None:
        if slack < 0:
            raise WorkloadError(f"slack must be non-negative, got {slack}")
        self.workload = workload
        self.slack = slack
        self._contexts = contexts
        # Compiled per-run view: the affinity table flattened onto the
        # run codec's type ids (row-major n x n list-of-lists), so the
        # per-queue scoring loop is two list indexes per queued job
        # instead of a string-tuple dict probe.  Bound by the cluster
        # at run start, cleared at run end.
        self._matrix: list[list[float]] | None = None
        self._codec: TypeCodec | None = None
        self.rebuild(rates)

    def rebuild(self, rates: RateSource) -> None:
        """(Re-)solve the offline LP against ``rates`` and rebuild the
        affinity table.

        Called once at construction, and by the estimation layer at
        every re-optimization round with the current estimates (then
        once more with the true source when the run ends, restoring
        the constructed state — the solve is deterministic in its
        inputs).  On a run memo the LP solve is shared with the round's
        schedulers (:func:`~repro.queueing.ratememo.optimal_schedule`).
        A bound run codec re-flattens immediately.
        """
        schedule = optimal_schedule(rates, self.workload, self._contexts)
        self.fractions: dict[tuple[str, ...], float] = dict(schedule.fractions)
        affinity: dict[tuple[str, str], float] = {}
        for coschedule, fraction in self.fractions.items():
            counts = Counter(coschedule)
            for a, n_a in counts.items():
                for b, n_b in counts.items():
                    co_runners = n_a * (n_b - (1 if a == b else 0))
                    if co_runners:
                        affinity[(a, b)] = (
                            affinity.get((a, b), 0.0) + fraction * co_runners
                        )
        self.affinity = affinity
        if self._codec is not None:
            self._flatten(self._codec)

    def bind_codec(self, codec: TypeCodec | None) -> None:
        """Flatten the affinity table onto the run's type ids.

        Every type named by the offline LP solution is interned up
        front; types the run introduces later get ids beyond the
        matrix and score 0.0 — exactly the ``dict.get`` default of the
        string path.
        """
        self._codec = codec
        if codec is None:
            self._matrix = None
            return
        self._flatten(codec)

    def _flatten(self, codec: TypeCodec) -> None:
        for a, b in self.affinity:
            codec.encode(a)
            codec.encode(b)
        n = codec.size
        matrix = [[0.0] * n for _ in range(n)]
        for (a, b), weight in self.affinity.items():
            matrix[codec.encode(a)][codec.encode(b)] = weight
        self._matrix = matrix

    def _mean_affinity(self, job_type: str, queue: Sequence[Job]) -> float:
        if not queue:
            return 0.0
        total = sum(
            self.affinity.get((job_type, queued.job_type), 0.0)
            for queued in queue
        )
        return total / len(queue)

    def _mean_affinity_coded(
        self, job_code: int, queue: Sequence[Job]
    ) -> float:
        """Coded twin of :meth:`_mean_affinity`.

        Sums the identical floats in the identical queue order (the
        matrix holds the dict's values, out-of-table lookups
        contribute the same 0.0), so routing scores — and therefore
        every tie-break — match the string path bit for bit.
        """
        if not queue:
            return 0.0
        matrix = self._matrix
        if job_code >= len(matrix):
            return 0.0
        row = matrix[job_code]
        n = len(row)
        total = 0.0
        for queued in queue:
            code = queued.type_code
            if code is not None and code < n:
                total += row[code]
        return total / len(queue)

    def route(
        self,
        job: Job,
        machines: Sequence["Machine"],
        eligible: Sequence[int],
        clock: float,
    ) -> int:
        if not eligible:
            raise WorkloadError("route() called with no eligible machine")
        shortest = min(len(machines[i].jobs) for i in eligible)
        shortlist = [
            i
            for i in eligible
            if len(machines[i].jobs) <= shortest + self.slack
        ]
        if self._matrix is not None and job.type_code is not None:
            job_code = job.type_code
            return min(
                shortlist,
                key=lambda i: (
                    -self._mean_affinity_coded(job_code, machines[i].jobs),
                    len(machines[i].jobs),
                    i,
                ),
            )
        return min(
            shortlist,
            key=lambda i: (
                -self._mean_affinity(job.job_type, machines[i].jobs),
                len(machines[i].jobs),
                i,
            ),
        )


def make_dispatcher(
    name: str,
    *,
    rates: RateSource | None = None,
    workload: Workload | None = None,
    contexts: int | None = None,
) -> Dispatcher:
    """Factory: build a dispatcher by name.

    ``rates`` and ``workload`` are required for "affinity" (its offline
    LP phase); the other policies need nothing.
    """
    key = name.lower().replace("-", "_")
    if key in ("rr", "round_robin", "roundrobin"):
        return RoundRobinDispatcher()
    if key in ("jsq", "join_shortest_queue", "shortest"):
        return JoinShortestQueueDispatcher()
    if key in ("affinity", "symbiosis", "symbiosis_affinity"):
        if rates is None or workload is None:
            raise WorkloadError(
                "the affinity dispatcher needs rates and workload for "
                "its offline LP phase"
            )
        return SymbiosisAffinityDispatcher(rates, workload, contexts=contexts)
    raise WorkloadError(
        f"unknown dispatcher {name!r}; choose round_robin, jsq, or affinity"
    )
