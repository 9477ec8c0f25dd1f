"""The four Section-VI schedulers: FCFS, MAXIT, SRPT, MAXTP.

All schedulers implement :class:`Scheduler`: given the jobs currently in
the system, pick the set to run until the next event.  The engine
re-invokes the scheduler at every arrival and completion, which is the
paper's "select coschedules from the jobs currently in the system".

Knowledge requirements mirror the paper:

* FCFS needs nothing;
* MAXIT needs the instantaneous throughput of every coschedule;
* SRPT additionally needs each job's remaining size;
* MAXTP needs an offline LP solve (the Section-IV optimal fractions)
  and then only the *types* of the jobs present.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Iterable, Sequence

from repro.errors import SimulationError, WorkloadError
from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.microarch.rates import RateSource
from repro.queueing.job import Job
from repro.util.multiset import sub_multisets

__all__ = [
    "Scheduler",
    "FcfsScheduler",
    "MaxItScheduler",
    "SrptScheduler",
    "MaxTpScheduler",
    "LongJobFirstScheduler",
    "RandomScheduler",
    "make_scheduler",
]


def _age_key(job: Job) -> tuple[float, int]:
    """Sort key: older jobs (earlier arrival, lower id) first."""
    return (job.arrival_time, job.job_id)


def _jobs_by_type(jobs: Iterable[Job]) -> dict[str, list[Job]]:
    by_type: dict[str, list[Job]] = {}
    for job in jobs:
        by_type.setdefault(job.job_type, []).append(job)
    return by_type


def _candidate_multisets(
    jobs: Sequence[Job], size: int
) -> list[tuple[str, ...]]:
    """Distinct type-multisets of ``size`` constructible from ``jobs``."""
    present = tuple(sorted(job.job_type for job in jobs))
    return sorted(set(sub_multisets(present, size)))


class Scheduler(ABC):
    """Base class: picks the running set at every scheduling event."""

    name: str = "base"

    def __init__(self, rates: RateSource, contexts: int) -> None:
        if contexts <= 0:
            raise SimulationError(f"contexts must be positive, got {contexts}")
        self.rates = rates
        self.contexts = contexts

    @abstractmethod
    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        """Choose which of ``jobs`` to run until the next event."""

    def observe(self, coschedule: tuple[str, ...], dt: float) -> None:
        """Hook: the engine reports how long each coschedule ran."""

    def state_dict(self) -> dict[str, object]:
        """JSON-safe mutable run state (checkpointing).

        Stateless policies return ``{}``; policies whose decisions
        depend on run history (MAXTP's time accounting, RANDOM's RNG)
        override both hooks so a checkpoint-restored run replays the
        exact pick sequence of the uninterrupted one.
        """
        return {}

    def load_state(self, state: dict[str, object]) -> None:
        """Restore mutable state captured by :meth:`state_dict`."""

    def bind_rates(self, rates: RateSource) -> None:
        """Swap the rate source used for probing.

        The event core hoists a shared per-run memo over the run's rate
        source and rebinds every scheduler to it, so candidate-multiset
        evaluation (MAXIT/SRPT probe many coschedules per decision) and
        engine stepping hit one memo; the original source is restored
        when the run ends.  Subclasses holding extra rate-consuming
        helpers must propagate the rebind.
        """
        self.rates = rates

    def reoptimize(self, rates: RateSource) -> None:
        """Hook: refresh any offline-solved policy state from ``rates``.

        Fired by the estimation layer at every re-optimization round
        (and once at run start / run end with the estimated / true
        source respectively).  Policies without an offline phase —
        FCFS, MAXIT, SRPT probe their bound source live — have nothing
        to refresh; MAXTP re-solves its LP.
        """

    def _pick_oldest(
        self, jobs: Sequence[Job], multiset: tuple[str, ...]
    ) -> list[Job]:
        """Instantiate a type-multiset with the oldest matching jobs."""
        by_type = _jobs_by_type(jobs)
        chosen: list[Job] = []
        for job_type, count in Counter(multiset).items():
            pool = sorted(by_type[job_type], key=_age_key)
            chosen.extend(pool[:count])
        return chosen


class FcfsScheduler(Scheduler):
    """Run jobs strictly in arrival order (work-conserving).

    Because the engine only reschedules at events and new arrivals are
    always younger than running jobs, this behaves exactly like a
    non-preemptive first-come first-served queue.
    """

    name = "fcfs"

    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        ordered = sorted(jobs, key=_age_key)
        return ordered[: self.contexts]


class MaxItScheduler(Scheduler):
    """Greedily maximize instantaneous throughput.

    Among all coschedules formable from the present jobs (of size
    min(K, jobs present)), pick the one with the highest ``it(s)``;
    ties go to the combination containing the oldest jobs.
    """

    name = "maxit"

    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        if not jobs:
            return []
        size = min(self.contexts, len(jobs))
        best: list[Job] | None = None
        best_key: tuple[float, float] | None = None
        for multiset in _candidate_multisets(jobs, size):
            it = sum(self.rates.type_rates(multiset).values())
            chosen = self._pick_oldest(jobs, multiset)
            age = sum(job.arrival_time for job in chosen)
            key = (-it, age)
            if best_key is None or key < best_key:
                best_key = key
                best = chosen
        assert best is not None
        return best

class SrptScheduler(Scheduler):
    """Shortest-remaining-processing-time, symbiosis-aware.

    For every candidate coschedule the remaining *execution* time of a
    job is its remaining work divided by its rate in that coschedule;
    the scheduler picks the combination minimizing the sum.  Within a
    type the shortest-remaining jobs are chosen (they minimize the sum
    for any multiset, since same-type jobs share a rate).
    """

    name = "srpt"

    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        if not jobs:
            return []
        size = min(self.contexts, len(jobs))
        by_type = _jobs_by_type(jobs)
        for pool in by_type.values():
            pool.sort(key=lambda job: (job.remaining, job.job_id))
        best: list[Job] | None = None
        best_key: tuple[float, float] | None = None
        for multiset in _candidate_multisets(jobs, size):
            type_rates = self.rates.type_rates(multiset)
            counts = Counter(multiset)
            chosen: list[Job] = []
            total_remaining = 0.0
            feasible = True
            for job_type, count in counts.items():
                rate = type_rates.get(job_type, 0.0) / count
                if rate <= 0.0:
                    feasible = False
                    break
                picks = by_type[job_type][:count]
                chosen.extend(picks)
                total_remaining += sum(j.remaining for j in picks) / rate
            if not feasible:
                continue
            age = sum(job.arrival_time for job in chosen)
            key = (total_remaining, age)
            if best_key is None or key < best_key:
                best_key = key
                best = chosen
        if best is None:
            raise SimulationError("no feasible coschedule (zero rates?)")
        return best

class MaxTpScheduler(Scheduler):
    """Follow the LP-optimal coschedule fractions (the paper's MAXTP).

    Offline phase: solve the Section-IV LP for the workload, obtaining
    the optimal coschedules and their ideal time fractions.  Online: if
    one or more optimal coschedules can be composed from the jobs in
    the system, select the one furthest *behind* its ideal fraction
    (tracked via :meth:`observe`); otherwise fall back to MAXIT.
    """

    name = "maxtp"

    def __init__(
        self,
        rates: RateSource,
        contexts: int,
        workload: Workload,
        *,
        backend: str = "simplex",
    ) -> None:
        super().__init__(rates, contexts)
        self.workload = workload
        self._backend = backend
        schedule = optimal_throughput(
            rates, workload, contexts=contexts, backend=backend
        )
        self.target_fractions: dict[tuple[str, ...], float] = dict(
            schedule.fractions
        )
        self.time_in: dict[tuple[str, ...], float] = {
            s: 0.0 for s in self.target_fractions
        }
        self.total_time = 0.0
        self._fallback = MaxItScheduler(rates, contexts)

    def observe(self, coschedule: tuple[str, ...], dt: float) -> None:
        """Track elapsed time globally and per optimal coschedule."""
        self.total_time += dt
        if coschedule in self.time_in:
            self.time_in[coschedule] += dt

    def state_dict(self) -> dict[str, object]:
        """The deficit accounting (floats round-trip JSON exactly)."""
        return {
            "total_time": self.total_time,
            "time_in": [
                [list(s), t] for s, t in self.time_in.items()
            ],
        }

    def load_state(self, state: dict[str, object]) -> None:
        self.total_time = float(state["total_time"])
        restored = {tuple(s): float(t) for s, t in state["time_in"]}
        if set(restored) != set(self.time_in):
            raise SimulationError(
                "MAXTP checkpoint targets do not match this workload's "
                "LP coschedules"
            )
        self.time_in = restored

    def bind_rates(self, rates: RateSource) -> None:
        """Rebind both this scheduler and its MAXIT fallback."""
        super().bind_rates(rates)
        self._fallback.bind_rates(rates)

    def reoptimize(self, rates: RateSource) -> None:
        """Re-solve the offline LP against ``rates`` (the estimation
        layer's re-optimization round), keeping the run's deficit
        accounting for targets that survive the re-solve.

        With bit-identical inputs (zero-noise estimates warm-started
        at the truth) the solve is deterministic, so the refreshed
        fractions — and every subsequent deficit — are unchanged.
        """
        schedule = optimal_throughput(
            rates,
            self.workload,
            contexts=self.contexts,
            backend=self._backend,
        )
        fractions = dict(schedule.fractions)
        self.time_in = {s: self.time_in.get(s, 0.0) for s in fractions}
        self.target_fractions = fractions

    def _deficit(self, coschedule: tuple[str, ...]) -> float:
        target = self.target_fractions[coschedule]
        if self.total_time == 0.0:
            return target
        return target - self.time_in[coschedule] / self.total_time

    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        if not jobs:
            return []
        if len(jobs) >= self.contexts:
            counts = Counter(job.job_type for job in jobs)
            candidates = [
                s
                for s in self.target_fractions
                if all(counts[t] >= c for t, c in Counter(s).items())
            ]
            if candidates:
                chosen = max(
                    candidates,
                    key=lambda s: (self._deficit(s), self.target_fractions[s], s),
                )
                return self._pick_oldest(jobs, chosen)
        return self._fallback.select(jobs, clock)


class LongJobFirstScheduler(Scheduler):
    """Run the jobs with the most remaining work first.

    The symbiosis-*unaware* heuristic that Xu et al. (PACT 2010) found
    to beat their symbiosis-aware scheduler on small fixed job sets
    (the paper discusses this in Section II): with few jobs, finishing
    long jobs early avoids draining the machine with idle contexts at
    the end, which matters more than symbiosis.
    """

    name = "ljf"

    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        ordered = sorted(
            jobs, key=lambda job: (-job.remaining, job.job_id)
        )
        return ordered[: self.contexts]


class RandomScheduler(Scheduler):
    """Select a uniformly random set of queued jobs (a control policy).

    Deterministic given the seed; used in tests and ablations as a
    symbiosis-blind alternative to FCFS with no age bias.
    """

    name = "random"

    def __init__(self, rates: RateSource, contexts: int, *, seed: int = 0):
        super().__init__(rates, contexts)
        from repro.util.rng import make_rng

        self._rng = make_rng(seed)

    def select(self, jobs: Sequence[Job], clock: float) -> list[Job]:
        if len(jobs) <= self.contexts:
            return list(jobs)
        return self._rng.sample(list(jobs), self.contexts)

    def state_dict(self) -> dict[str, object]:
        """The Mersenne-Twister state (ints; JSON-exact)."""
        version, internal, gauss = self._rng.getstate()
        return {"rng": [version, list(internal), gauss]}

    def load_state(self, state: dict[str, object]) -> None:
        version, internal, gauss = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss))


def make_scheduler(
    name: str,
    rates: RateSource,
    contexts: int,
    *,
    workload: Workload | None = None,
    seed: int = 0,
) -> Scheduler:
    """Factory: build a scheduler by name.

    ``workload`` is required for "maxtp" (its offline LP phase);
    ``seed`` only affects "random".
    """
    key = name.lower()
    if key == "fcfs":
        return FcfsScheduler(rates, contexts)
    if key == "maxit":
        return MaxItScheduler(rates, contexts)
    if key == "srpt":
        return SrptScheduler(rates, contexts)
    if key == "ljf":
        return LongJobFirstScheduler(rates, contexts)
    if key == "random":
        return RandomScheduler(rates, contexts, seed=seed)
    if key == "maxtp":
        if workload is None:
            raise WorkloadError("MAXTP needs the workload for its offline phase")
        return MaxTpScheduler(rates, contexts, workload)
    raise WorkloadError(
        f"unknown scheduler {name!r}; choose fcfs, maxit, srpt, ljf, "
        "random, or maxtp"
    )
