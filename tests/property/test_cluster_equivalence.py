"""Equivalence properties of the cluster event core.

Two pins hold the refactor honest:

1. **M=1 bit-identity** — ``run_system`` (now a thin wrapper over the
   heap-driven cluster core) must produce *bit-identical*
   ``SystemMetrics`` to the seed single-machine engine on random
   workloads and schedulers, including warmup/horizon/backlog knobs.
   The seed loop is inlined below as the reference implementation.
2. **Round-robin decomposition** — an M-machine cluster with
   round-robin dispatch and no admission caps must match M independent
   single-machine runs on the round-robin substreams (the dynamic side
   of the paper's Section III-D reduction).  Machines are lazily
   synced in the cluster, so per-machine floating point can differ in
   the last ulp; the comparison is exact on counts and tight-approx on
   time integrals.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.workload import Workload
from repro.errors import SimulationError
from repro.microarch.rates import TableRates
from repro.queueing.cluster import run_cluster
from repro.queueing.dispatch import RoundRobinDispatcher
from repro.queueing.engine import run_system
from repro.queueing.job import Job
from repro.queueing.schedulers import Scheduler, make_scheduler
from repro.queueing.system import SystemMetrics
from repro.util.multiset import multisets

AB = Workload.of("A", "B")

# ----------------------------------------------------------------------
# Reference: the seed single-machine engine, inlined verbatim.  The
# refactored run_system must reproduce its SystemMetrics bit for bit.
# ----------------------------------------------------------------------
_EPSILON = 1e-9


def _seed_per_job_type_rates(rates, coschedule):
    if not coschedule:
        return {}
    type_rates = rates.type_rates(coschedule)
    counts = Counter(coschedule)
    return {
        job_type: type_rates.get(job_type, 0.0) / count
        for job_type, count in counts.items()
    }


def _seed_run_system(
    rates,
    scheduler: Scheduler,
    arrivals,
    *,
    warmup_time: float = 0.0,
    horizon: float | None = None,
    stop_when_fewer_than: int | None = None,
    keep_in_system: int | None = None,
    max_events: int = 5_000_000,
) -> SystemMetrics:
    stream = iter(arrivals)
    pending = next(stream, None)
    jobs: list[Job] = []
    metrics = SystemMetrics()
    clock = 0.0
    last_arrival = -1.0
    rate_memo: dict[tuple[str, ...], dict[str, float]] = {}

    for _ in range(max_events):
        while (
            pending is not None
            and pending.arrival_time <= clock + _EPSILON
            and (keep_in_system is None or len(jobs) < keep_in_system)
        ):
            if pending.arrival_time < last_arrival - _EPSILON:
                raise SimulationError("arrivals out of order")
            last_arrival = pending.arrival_time
            jobs.append(pending)
            pending = next(stream, None)

        if stop_when_fewer_than is not None and pending is None:
            if len(jobs) < stop_when_fewer_than:
                break
        if not jobs and pending is None:
            break
        if horizon is not None and clock >= horizon:
            break

        running = scheduler.select(jobs, clock) if jobs else []
        coschedule = tuple(sorted(job.job_type for job in running))
        job_rates = rate_memo.get(coschedule)
        if job_rates is None:
            job_rates = _seed_per_job_type_rates(rates, coschedule)
            rate_memo[coschedule] = job_rates
        next_completion = float("inf")
        for job in running:
            rate = job_rates[job.job_type]
            next_completion = min(next_completion, job.remaining / rate)

        can_admit = keep_in_system is None or len(jobs) < keep_in_system
        next_arrival = (
            pending.arrival_time - clock
            if (pending is not None and can_admit)
            else float("inf")
        )
        dt = min(next_completion, next_arrival)
        if horizon is not None:
            dt = min(dt, horizon - clock)
        if dt == float("inf"):
            raise SimulationError("no progress possible: idle with no arrivals")
        dt = max(dt, 0.0)

        work = 0.0
        for job in running:
            step = job_rates[job.job_type] * dt
            job.progress(step)
            work += step

        measured_dt = min(clock + dt, float("inf")) - max(clock, warmup_time)
        if measured_dt > 0.0:
            fraction = measured_dt / dt if dt > 0.0 else 0.0
            metrics.observe_interval(
                measured_dt, coschedule, len(jobs), work * fraction
            )
        scheduler.observe(coschedule, dt)
        clock += dt

        finished = [job for job in running if job.done]
        for job in finished:
            job.completion_time = clock
            if clock >= warmup_time:
                metrics.observe_completion(job.turnaround)
        if finished:
            done_ids = {job.job_id for job in finished}
            jobs = [job for job in jobs if job.job_id not in done_ids]
    else:
        raise SimulationError(
            f"simulation exceeded {max_events} events without terminating"
        )

    return metrics


# ----------------------------------------------------------------------
# Shared synthetic rate table and job-stream strategy (mirrors
# test_engine_properties).
# ----------------------------------------------------------------------
def unit_table() -> TableRates:
    table = {}
    per_job = {"A": 1.0, "B": 0.6}
    for size in (1, 2):
        for cos in multisets(("A", "B"), size):
            interference = 0.8 if len(set(cos)) == 1 and size == 2 else 1.0
            table[cos] = {
                b: per_job[b] * cos.count(b) * interference
                for b in set(cos)
            }
    return TableRates(table)


RATES = unit_table()

job_streams = st.lists(
    st.tuples(
        st.sampled_from(("A", "B")),
        st.floats(min_value=0.0, max_value=5.0),  # inter-arrival gap
        st.floats(min_value=0.05, max_value=3.0),  # size
    ),
    min_size=1,
    max_size=25,
)

scheduler_names = st.sampled_from(("fcfs", "maxit", "srpt", "maxtp"))

run_knobs = st.sampled_from(
    (
        {},
        {"warmup_time": 3.0},
        {"horizon": 9.0},
        {"keep_in_system": 2, "stop_when_fewer_than": 2},
    )
)


def build_jobs(stream) -> list[Job]:
    jobs = []
    clock = 0.0
    for i, (job_type, gap, size) in enumerate(stream):
        clock += gap
        jobs.append(
            Job(job_id=i, job_type=job_type, size=size, arrival_time=clock)
        )
    return jobs


class TestSingleMachineBitIdentity:
    @given(job_streams, scheduler_names, run_knobs)
    @settings(max_examples=120, deadline=None)
    def test_metrics_bit_identical_to_seed_engine(
        self, stream, name, knobs
    ):
        """The refactored M=1 path is the seed engine, bit for bit."""
        seed_jobs = build_jobs(stream)
        seed_metrics = _seed_run_system(
            RATES,
            make_scheduler(name, RATES, 2, workload=AB),
            seed_jobs,
            **knobs,
        )
        new_jobs = build_jobs(stream)
        new_metrics = run_system(
            RATES,
            make_scheduler(name, RATES, 2, workload=AB),
            new_jobs,
            **knobs,
        )
        # Dataclass equality is field-exact: every float accumulator,
        # the completion counters, and the per-coschedule time map must
        # match without tolerance.
        assert new_metrics == seed_metrics
        assert [j.completion_time for j in new_jobs] == [
            j.completion_time for j in seed_jobs
        ]
        assert [j.remaining for j in new_jobs] == [
            j.remaining for j in seed_jobs
        ]


class TestRoundRobinDecomposition:
    @given(
        job_streams,
        scheduler_names,
        st.integers(min_value=2, max_value=3),
    )
    # Job 1 arrives 1e-9 after job 0, inside the batching epsilon: it
    # must not start on machine 1 at machine 0's arrival event.
    @example(
        stream=[
            ("A", 1.0, 1.0),
            ("B", 1e-09, 1.0),
            ("A", 0.0, 1.0),
            ("B", 1.0, 1.0),
            ("A", 0.0, 1.0),
            ("A", 0.0, 2.0),
        ],
        name="fcfs",
        m=2,
    )
    @settings(max_examples=60, deadline=None)
    def test_cluster_matches_independent_machines(self, stream, name, m):
        """RR dispatch over M machines == M independent substream runs.

        Counts are exact; time integrals agree to floating-point noise
        (the cluster syncs machines lazily against a global clock).
        """
        jobs = build_jobs(stream)
        cluster = run_cluster(
            RATES,
            [make_scheduler(name, RATES, 2, workload=AB) for _ in range(m)],
            RoundRobinDispatcher(),
            jobs,
        )
        for machine in range(m):
            substream = [
                Job(
                    job_id=j.job_id,
                    job_type=j.job_type,
                    size=j.size,
                    arrival_time=j.arrival_time,
                )
                for i, j in enumerate(build_jobs(stream))
                if i % m == machine
            ]
            if not substream:
                assert cluster.per_machine[machine].completed == 0
                continue
            single = run_system(
                RATES,
                make_scheduler(name, RATES, 2, workload=AB),
                substream,
            )
            got = cluster.per_machine[machine]
            assert got.completed == single.completed
            assert got.turnaround_sum == pytest.approx(
                single.turnaround_sum, rel=1e-6, abs=1e-9
            )
            assert got.work_done == pytest.approx(
                single.work_done, rel=1e-6, abs=1e-9
            )
            assert got.busy_context_time == pytest.approx(
                single.busy_context_time, rel=1e-6, abs=1e-9
            )
            # The cluster machine keeps observing (idle) until the
            # whole cluster drains, so its window is at least as long.
            assert got.measured_time >= single.measured_time - 1e-9
            for coschedule, span in single.time_by_coschedule.items():
                assert got.time_by_coschedule[coschedule] == pytest.approx(
                    span, rel=1e-6, abs=1e-9
                )

    @given(job_streams, st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_cluster_conserves_work_and_completions(self, stream, m):
        jobs = build_jobs(stream)
        total_work = sum(j.size for j in jobs)
        metrics = run_cluster(
            RATES,
            [make_scheduler("fcfs", RATES, 2) for _ in range(m)],
            RoundRobinDispatcher(),
            jobs,
        )
        assert metrics.completed == len(jobs)
        assert metrics.work_done == pytest.approx(total_work, rel=1e-6)
